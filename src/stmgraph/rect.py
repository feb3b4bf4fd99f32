"""Discrete rectangle geometry: inclusion forests of laminar families and
complements of disjoint rectangles.

Rectangles are inclusive integer boxes [x1,x2] x [y1,y2] on the grid, each
given by its key row (x1, x2, y1, y2).  The functions here take a family
as an (m, 4) integer array of key rows or as a sequence of 4-tuples, and
return key rows as int64 arrays.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import islice

import numpy as np

from .graph import InputError, Rows, _frozen, _int_rows


class LaminarityError(ValueError):
    """Raised when an input rectangle family is found not to be laminar.

    ``indices`` holds the input positions of two rectangles that witness it.
    """

    def __init__(self, message: str, indices: tuple[int, int]):
        super().__init__(message)
        self.indices = indices


def _keys(rows: Rows) -> np.ndarray:
    """The key rows as a read-only (m, 4) int64 array of its own, read by
    ``_int_rows`` (InputError for rows that are not 4 integers in int64);
    InputError if a key row is degenerate."""
    (keys,) = _frozen(np.array(_int_rows(rows, 4)))
    bad = np.flatnonzero((keys[:, 0] > keys[:, 1]) | (keys[:, 2] > keys[:, 3]))
    if bad.size:
        raise InputError(f"degenerate rectangle {tuple(keys[bad[0]].tolist())}")
    return keys


class _BlockedList:
    """A sorted list between a ``low`` and a ``high`` sentinel, which are
    never removed, kept in blocks of at most 2 * LOAD items, and indexed by
    ``lasts``, the list of the blocks' last items.  The sweeps locate an
    item with two plain bisections, ``bisect_left(lasts, key)`` for its
    block i and ``bisect_left(blocks[i], key)`` for its place j there; the
    item before it is blocks[i][j - 1], or lasts[i - 1] when j is 0.  An
    insertion or deletion then moves O(LOAD + m / LOAD) references, where
    one Python list of all m items would move O(m)."""

    LOAD = 512

    def __init__(self, low, high):
        self.blocks = [[low, high]]
        self.lasts = [high]

    def fit(self, i: int) -> None:
        """Move the second half of block i into a new block after it, if it
        holds more than 2 * LOAD items."""
        block = self.blocks[i]
        if len(block) > 2 * self.LOAD:
            half = len(block) // 2
            self.blocks.insert(i + 1, block[half:])
            self.lasts.insert(i, block[half - 1])
            del block[half:]

    def mend(self, i: int) -> None:
        """Drop block i if it is empty, else index its last item."""
        if self.blocks[i]:
            self.lasts[i] = self.blocks[i][-1]
        else:
            del self.blocks[i], self.lasts[i]


class InclusionForest:
    """Containment forest of a laminar rectangle family.

    ``keys`` is the family as an (m, 4) int64 array of key rows; ``up[i]``
    is the index of the smallest rectangle strictly containing rectangle
    ``i``, or -1 for a root.
    """

    def __init__(self, keys: np.ndarray, up: np.ndarray):
        self.keys = keys
        self.up = up


def inclusion_forest(rows: Rows) -> InclusionForest:
    """Inclusion forest of the key rows; LaminarityError unless they are
    laminar.

    One sweep builds the forest and checks laminarity in O(m log m) time:
    the active boundaries below sit in a blocked sorted list, so an
    insertion or deletion moves a bounded number of references, however
    many rectangles are active.  The sweep takes the rectangles in
    (x1, -x2, y1, -y2) order (one ``np.lexsort``), which puts every
    rectangle after those that contain it and duplicates next to each
    other; one comparison of adjacent sorted rows finds the first
    duplicate, and the sweep stops at its rank.  The active rectangles
    are the swept ones whose x2 is not left of the current x1.  Only they
    can meet the current rectangle r = [x1,x2] x [a,b], and all of them
    meet its column x1.  X2[s] < X1[t] implies that s was swept before t,
    so the closes run in one precomputed (x2, rank) order, and one
    ``np.searchsorted`` counts those due before each rank.  An active
    rectangle with y range [c,d] keeps two boundaries in one sorted list:
    an open (2c-1, +t) and a close (2d+1, -t), where t is its rank in the
    sweep; each is one int that sorts as its (position, +-rank) pair.  The
    positions use the ranks of the y values among all of them, not the
    values, so the ints fit int64: an open of c sorts after a close of d
    exactly when c > d, and other pairs compare as their y values, so only
    the order of the y values counts, and their ranks keep it.

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

    One locate of r's own open o = (2a-1, +t) serves the query and both
    insertions.  Every live boundary at 2a-1 sorts before o (a close, or
    an open of an earlier rank), so the items just below and at or above o
    are those around 2a.  Every live boundary at 2b+1 sorts after r's close
    k = (2b+1, -t) (an open, or a close of an earlier rank), so the item
    above lies in [2a, 2b] exactly when it is below k.  When nothing
    raises, no live boundary lies between o and k, and both go in at the
    located slot.
    """
    keys = _keys(rows)
    order = np.lexsort((-keys[:, 3], keys[:, 2], -keys[:, 1], keys[:, 0]))
    m = len(order)
    swept = keys[order]  # by rank 1..m
    again = np.flatnonzero((swept[1:] == swept[:-1]).all(axis=1))
    stop = int(again[0]) + 1 if again.size else m  # the ranks before the first duplicate
    ys, y = np.unique(swept[:, 2:], return_inverse=True)
    y = y.reshape(m, 2) + 1  # y ranks from 1, ordered as the y values
    span = 2 * m + 1  # boundary (position, s) is the int position * span + m + s
    # rank t opens at 2c - 1 with +t and closes at 2d + 1 with -t
    bound = (2 * y + [-1, 1]) * span + m + np.arange(1, m + 1)[:, None] * [1, -1]
    shut = np.argsort(swept[:, 1], kind="stable")  # closes by (x2, rank)
    steps = np.diff(np.searchsorted(swept[shut, 1], swept[:, 0]), prepend=0)
    del y
    X2 = array("q", np.append(0, swept[:, 1]).tobytes())  # by rank
    up = array("q", bytes(8 * (m + 1)))  # rank of the parent, 0 for a root
    gone = iter(array("q", bound[shut].tobytes()))
    bounds = _BlockedList(m, (2 * len(ys) + 2) * span)
    blocks, lasts, fit, mend = bounds.blocks, bounds.lasts, bounds.fit, bounds.mend
    for t, o, c, x2, k in zip(range(1, stop + 1), array("q", bound[:, 0].tobytes()),
                              array("q", bound[:, 1].tobytes()), X2[1:], steps.tolist()):
        if k:
            for v in islice(gone, 2 * k):
                i = bisect_left(lasts, v)
                block = blocks[i]
                j = bisect_left(block, v)
                del block[j]
                if j == len(block):
                    mend(i)
        i = bisect_left(lasts, o)
        block = blocks[i]
        j = bisect_left(block, o)
        above = block[j]
        if above < c:
            witness = abs(above % span - m)
        else:
            s = (block[j - 1] if j else lasts[i - 1]) % span - m
            q = up[t] = s if s > 0 else up[-s]
            if not q or X2[q] >= x2:
                block[j:j] = o, c
                fit(i)
                continue
            witness = q
        w, r = order[witness - 1], order[t - 1]
        raise LaminarityError(f"rectangles {tuple(keys[w].tolist())} and "
                              f"{tuple(keys[r].tolist())} properly overlap", (w, r))
    if stop < m:
        raise LaminarityError(f"duplicate rectangle {tuple(swept[stop].tolist())}",
                              (order[stop - 1], order[stop]))
    parent = np.empty_like(order)
    parent[order] = np.append(-1, order)[np.frombuffer(up, np.int64)[1:]]
    return InclusionForest(keys, parent)


def complement_partition(outer: Rows, holes: Rows) -> np.ndarray:
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
    bounded number of pieces.  Active holes are disjoint, so they sort by
    y1 alone: the blocked list holds each as one int, (y1 - low) * w +
    (y2 - low) with low = outer's y1 - 1 and w = its height + 2, between
    two sentinels just outside ``outer``; the int sorts as its y1, and
    ``% w`` and ``// w`` give back its y2 and y1.  One locate of the
    event's y1 finds both its neighbours: a start goes in at that slot,
    and an end is the located item itself.  A start whose neighbours
    reach into [y1, y2] raises.
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
    # the holes meeting the sweep column as ints (y1 - low) * w + y2 - low,
    # which sort as their y1, between two sentinels just outside ``outer``
    low, w = oy1 - 1, oy2 - oy1 + 3
    active = _BlockedList(0, w * w - 1)
    blocks, lasts, fit, mend = active.blocks, active.lasts, active.fit, active.mend
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
        key = (c - low) * w
        i = bisect_left(lasts, key)
        block = blocks[i]
        j = bisect_left(block, key)
        lo = (block[j - 1] if j else lasts[i - 1]) % w + low + 1
        if starts:
            hi = block[j] // w + low - 1
            if lo > c or hi < d:
                raise InputError("holes overlap")
            close(lo, hi)
            reopen(lo, c - 1)
            reopen(d + 1, hi)
            block.insert(j, key + d - low)
            fit(i)
        else:
            del block[j]
            hi = (block[j] if j < len(block) else blocks[i + 1][0]) // w + low - 1
            if j == len(block):
                mend(i)
            close(lo, c - 1)
            close(d + 1, hi)
            reopen(lo, hi)
    pieces += [(start, x - 1, lo, hi) for (lo, hi), start in closed.items()]
    pieces += [(start, ox2, lo, hi) for (lo, hi), start in open_at.items()]
    out = np.array(pieces, dtype=np.int64).reshape(-1, 4)
    return out[np.lexsort((out[:, 2], out[:, 0], out[:, 1]))]
