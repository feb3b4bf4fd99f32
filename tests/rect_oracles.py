"""The rectangle sweeps as they stood before the one-locate rework: a
``_SortedList`` of blocks found by a key function, and a heap of closes.
Kept verbatim as oracles for the differential tests of
``stmgraph.rect.inclusion_forest`` and ``complement_partition``: equal
``up``, equal pieces, and equal error text and ``indices``."""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from operator import itemgetter

import numpy as np

from stmgraph.graph import InputError, Rows
from stmgraph.rect import InclusionForest, LaminarityError, _keys

_last = itemgetter(-1)


class _SortedList:
    """A sorted list kept in blocks of at most 2 * LOAD items, found by
    their last items: ``add``, ``remove`` and ``neighbours`` make O(log m)
    comparisons and move O(LOAD + m / LOAD) references, where one Python
    list of all m items would move O(m)."""

    LOAD = 512

    def __init__(self):
        self._blocks: list[list] = []

    def add(self, item) -> None:
        blocks = self._blocks
        if not blocks:
            blocks.append([item])
            return
        i = min(bisect_left(blocks, item, key=_last), len(blocks) - 1)
        block = blocks[i]
        insort(block, item)
        if len(block) > 2 * self.LOAD:
            blocks.insert(i + 1, block[self.LOAD:])
            del block[self.LOAD:]

    def remove(self, item) -> None:
        i = bisect_left(self._blocks, item, key=_last)
        block = self._blocks[i]
        del block[bisect_left(block, item)]
        if not block:
            del self._blocks[i]

    def neighbours(self, key) -> tuple:
        """(the last item < key, the first item >= key), None where there is none."""
        blocks = self._blocks
        i = bisect_left(blocks, key, key=_last)
        if i == len(blocks):
            return (blocks[-1][-1] if blocks else None), None
        block = blocks[i]
        j = bisect_left(block, key)
        below = block[j - 1] if j else (blocks[i - 1][-1] if i else None)
        return below, block[j]


def oracle_inclusion_forest(rows: Rows) -> InclusionForest:
    """Inclusion forest of the key rows; LaminarityError unless they are
    laminar.

    One sweep builds the forest and checks laminarity in O(m log m) time:
    the active boundaries below sit in a blocked sorted list, so an
    insertion or deletion moves a bounded number of references, however
    many rectangles are active.  The sweep takes the rectangles in
    (x1, -x2, y1, -y2) order (one ``np.lexsort``), which puts every
    rectangle after those that contain it and duplicates next to each
    other.  The active rectangles are the swept ones whose x2 is not left
    of the current x1.  Only they can meet the current rectangle
    r = [x1,x2] x [a,b], and all of them meet its column x1.  An active
    rectangle with y range [c,d] keeps two boundaries in one sorted list:
    an open (2c-1, +t) and a close (2d+1, -t), where t is its rank in the
    sweep; each is one int that sorts as its (position, +-rank) pair.

    While nothing has raised, the swept rectangles are laminar, so two
    active ones whose y ranges meet are nested.  A boundary inside
    [2a, 2b] has c in (a, b] or d in [a, b).  Its rectangle then meets r,
    does not contain r (its y range misses part of [a,b]), and is not
    inside r (it would need r's x range, c = a and d = b by the order).
    The two properly overlap, and they are the witness.  With no boundary
    there, every active rectangle that meets r spans [a,b] in y.  These
    links form a chain by containment, and the boundary just below 2a
    names the smallest link Q:
    - an open names its own rectangle: its close lies above 2b, and every
      other link opens lower, or at the same place earlier in the sweep,
      so it contains this one;
    - a close names the parent of its rectangle R: every link opens below
      R's close (opens sort after closes at one position), so it meets R
      and contains it, and so contains R's parent; that parent is active,
      and its close sorts after R's, so it spans [a,b] and is a link.
    Q contains r if Q's x2 reaches r's; then Q is r's parent, since every
    rectangle containing r is a link.  Otherwise Q and r properly
    overlap.  So the first rectangle swept that is a duplicate of, or
    properly overlaps, an earlier one raises.
    """
    keys = _keys(rows)
    x1s, x2s, y1s, y2s = keys.T
    order = np.lexsort((-y2s, y1s, -x2s, x1s))
    m = len(order)
    X1, X2, Y1, Y2 = ([0] + col for col in keys[order].T.tolist())  # by rank 1..m
    up = [0] * (m + 1)  # rank of the parent, 0 for a root
    span = 2 * m + 1  # boundary (position, s) is the int position * span + m + s
    bounds = _SortedList()
    closing: list[int] = []  # heap of x2 * span + rank
    prev = None
    for t, x1, x2, a, b in zip(range(1, m + 1), X1[1:], X2[1:], Y1[1:], Y2[1:]):
        if prev == (x1, x2, a, b):
            raise LaminarityError(f"duplicate rectangle {prev}", (order[t - 2], order[t - 1]))
        prev = (x1, x2, a, b)
        while closing and closing[0] < x1 * span:
            s = heappop(closing) % span
            bounds.remove((2 * Y1[s] - 1) * span + m + s)
            bounds.remove((2 * Y2[s] + 1) * span + m - s)
        below, above = bounds.neighbours(2 * a * span)
        witness = 0
        if above is not None and above < (2 * b + 1) * span:
            witness = abs(above % span - m)
        elif below is not None:
            s = below % span - m
            q = up[t] = s if s > 0 else up[-s]
            if q and X2[q] < x2:
                witness = q
        if witness:
            w = (X1[witness], X2[witness], Y1[witness], Y2[witness])
            raise LaminarityError(f"rectangles {w} and {prev} properly overlap",
                                  (order[witness - 1], order[t - 1]))
        bounds.add((2 * a - 1) * span + m + t)
        bounds.add((2 * b + 1) * span + m - t)
        heappush(closing, x2 * span + t)
    ranks = np.array(up[1:], dtype=np.int64)
    parent = np.full(m, -1, dtype=np.int64)
    parent[order] = np.where(ranks > 0, order[ranks - 1], -1)
    return InclusionForest(keys, parent)


def oracle_complement_partition(outer: Rows, holes: Rows) -> np.ndarray:
    """Partition ``outer`` minus the disjoint ``holes`` into <= 3h+1 rectangles.

    ``outer`` is one key row, ``holes`` are key rows; the pieces come back
    as a (k, 4) int64 array of key rows, sorted by (x2, x1, y1).

    A left-to-right sweep over the holes' x-boundaries keeps the active
    holes sorted by y, and each gap between neighbours is a free
    y-interval, open as a piece since the x where it last changed.  A hole
    that starts closes the one gap it falls in and opens the two beside it;
    one that ends closes those two and opens their union.  A gap closed and
    opened again at one x stays open.  So each event touches O(1) gaps and
    the sweep takes O(h log h) time; each hole boundary opens at most a
    bounded number of pieces.
    """
    ox1, ox2, oy1, oy2 = _keys([outer])[0].tolist()
    h = _keys(holes)
    escapes = (h[:, 0] < ox1) | (h[:, 1] > ox2) | (h[:, 2] < oy1) | (h[:, 3] > oy2)
    if escapes.any():
        bad = tuple(h[np.flatnonzero(escapes)[0]].tolist())
        raise InputError(f"hole {bad} escapes outer {(ox1, ox2, oy1, oy2)}")
    # events (x, starts, y1, y2): a hole ends at x2 + 1, before the holes
    # that start there
    ev = np.concatenate((np.column_stack((h[:, 1] + 1, 0 * h[:, :1], h[:, 2:])),
                         np.column_stack((h[:, 0], 0 * h[:, :1] + 1, h[:, 2:]))))
    ev = ev[ev[:, 0] <= ox2]
    active = _SortedList()  # (y1, y2) of the holes meeting the sweep column
    open_at = {(oy1, oy2): ox1}  # free y-interval -> x where its piece starts
    closed: dict[tuple[int, int], int] = {}  # the ones closed at x -> their start
    pieces: list[tuple[int, int, int, int]] = []

    def close(lo: int, hi: int) -> None:
        if lo <= hi and (start := open_at.pop((lo, hi))) < x:
            closed[lo, hi] = start

    def reopen(lo: int, hi: int) -> None:
        if lo <= hi:
            open_at[lo, hi] = closed.pop((lo, hi), x)

    x = ox1
    for ex, starts, c, d in ev[np.lexsort((ev[:, 1], ev[:, 0]))].tolist():
        if ex > x:
            pieces += [(start, x - 1, lo, hi) for (lo, hi), start in closed.items()]
            closed.clear()
            x = ex
        if not starts:
            active.remove((c, d))
        below, above = active.neighbours((c,))
        if starts and ((below and below[1] >= c) or (above and above[0] <= d)):
            raise InputError("holes overlap")
        lo, hi = below[1] + 1 if below else oy1, above[0] - 1 if above else oy2
        if starts:
            close(lo, hi)
            reopen(lo, c - 1)
            reopen(d + 1, hi)
            active.add((c, d))
        else:
            close(lo, c - 1)
            close(d + 1, hi)
            reopen(lo, hi)
    pieces += [(start, x - 1, lo, hi) for (lo, hi), start in closed.items()]
    pieces += [(start, ox2, lo, hi) for (lo, hi), start in open_at.items()]
    out = np.array(pieces, dtype=np.int64).reshape(-1, 4)
    return out[np.lexsort((out[:, 2], out[:, 0], out[:, 1]))]
