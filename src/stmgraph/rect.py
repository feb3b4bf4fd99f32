"""Discrete rectangle geometry: inclusion forests of laminar families and
complements of disjoint rectangles.

Rectangles are inclusive integer boxes [x1,x2] x [y1,y2] on the grid.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Optional

from .graph import InputError


class LaminarityError(ValueError):
    """Raised when an input rectangle family is found not to be laminar.

    ``indices`` holds the input positions of two rectangles that witness it.
    """

    def __init__(self, message: str, indices: tuple[int, int]):
        super().__init__(message)
        self.indices = indices


@dataclass(frozen=True)
class Rect:
    x1: int
    x2: int
    y1: int
    y2: int
    payload: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise InputError(f"degenerate rectangle {self.key()}")

    def key(self) -> tuple[int, int, int, int]:
        return (self.x1, self.x2, self.y1, self.y2)

    @property
    def area(self) -> int:
        return (self.x2 - self.x1 + 1) * (self.y2 - self.y1 + 1)

    def contains(self, other: "Rect") -> bool:
        return (self.x1 <= other.x1 and other.x2 <= self.x2
                and self.y1 <= other.y1 and other.y2 <= self.y2)

    def disjoint(self, other: "Rect") -> bool:
        return (self.x2 < other.x1 or other.x2 < self.x1
                or self.y2 < other.y1 or other.y2 < self.y1)


class InclusionForest:
    """Containment forest of a laminar rectangle family.

    ``parent[i]`` is the index of the smallest rectangle strictly containing
    rectangle ``i``, or None for roots.
    """

    def __init__(self, rects: list[Rect], parent: list[Optional[int]]):
        self.rects = rects
        self.parent = parent
        self.children: list[list[int]] = [[] for _ in rects]
        self.roots: list[int] = []
        for i, p in enumerate(parent):
            if p is None:
                self.roots.append(i)
            else:
                self.children[p].append(i)


def inclusion_forest(rects: Iterable[Rect]) -> InclusionForest:
    """Inclusion forest of ``rects``; LaminarityError unless they are laminar.

    One sweep builds the forest and checks laminarity with O(m log m)
    comparisons; each insertion into the sorted list below also shifts the
    list's tail, a memmove over at most the active set.  The sweep takes
    the rectangles in (x1, -x2, y1, -y2) order, which puts every rectangle
    after those that contain it and duplicates next to each other.  The
    active rectangles are the swept ones whose x2 is not left of the
    current x1.  Only they can meet the current rectangle
    r = [x1,x2] x [a,b], and all of them meet its column x1.  An active
    rectangle with y range [c,d] keeps two boundaries in one sorted list:
    an open (2c-1, +t) and a close (2d+1, -t), where t is its rank in the
    sweep.

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
    rlist = list(rects)
    keys = [r.key() for r in rlist]
    order = sorted(range(len(rlist)),
                   key=lambda i: (keys[i][0], -keys[i][1], keys[i][2], -keys[i][3]))
    parent: list[Optional[int]] = [None] * len(rlist)
    bounds: list[tuple[int, int, int]] = []  # (position, +-rank, index), sorted
    closing: list[tuple[int, int, int]] = []  # heap of (x2, rank, index)
    prev = None
    for t, i in enumerate(order, start=1):
        x1, x2, a, b = keys[i]
        if prev is not None and keys[prev] == keys[i]:
            raise LaminarityError(f"duplicate rectangle {keys[i]}", (prev, i))
        prev = i
        while closing and closing[0][0] < x1:
            _, s, j = heappop(closing)
            del bounds[bisect_left(bounds, (2 * keys[j][2] - 1, s, j))]
            del bounds[bisect_left(bounds, (2 * keys[j][3] + 1, -s, j))]
        k = bisect_left(bounds, (2 * a,))
        witness = bounds[k][2] if k < len(bounds) and bounds[k][0] <= 2 * b else None
        if witness is None and k:
            _, s, j = bounds[k - 1]
            q = parent[i] = j if s > 0 else parent[j]
            if q is not None and keys[q][1] < x2:
                witness = q
        if witness is not None:
            raise LaminarityError(
                f"rectangles {keys[witness]} and {keys[i]} properly overlap", (witness, i))
        insort(bounds, (2 * a - 1, t, i))
        insort(bounds, (2 * b + 1, -t, i))
        heappush(closing, (x2, t, i))
    return InclusionForest(rlist, parent)


def _free_intervals(y1: int, y2: int, blocks: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Complement of sorted disjoint ``blocks`` within [y1,y2]."""
    out = []
    cur = y1
    for b1, b2 in blocks:
        if b1 > cur:
            out.append((cur, b1 - 1))
        cur = max(cur, b2 + 1)
    if cur <= y2:
        out.append((cur, y2))
    return out


def complement_partition(outer: Rect, holes: Iterable[Rect]) -> list[Rect]:
    """Partition ``outer`` minus the disjoint ``holes`` into <= 3h+1 rectangles.

    Left-to-right sweep over hole x-boundaries; within each slab the free
    y-intervals are kept open as long as they persist unchanged, so each hole
    boundary opens at most a bounded number of new rectangles.
    """
    hlist = list(holes)
    for h in hlist:
        if not outer.contains(h):
            raise InputError(f"hole {h.key()} escapes outer {outer.key()}")
    events = {outer.x1}
    for h in hlist:
        events.add(h.x1)
        if h.x2 + 1 <= outer.x2:
            events.add(h.x2 + 1)
    out: list[Rect] = []
    open_at: dict[tuple[int, int], int] = {}  # free y-interval -> slab start x
    # sorted-by-y1 list of active holes as (y1, y2, x2)
    active: list[tuple[int, int, int]] = []
    starts = sorted(hlist, key=lambda h: h.x1)
    si = 0
    for x in sorted(events):
        active = [a for a in active if a[2] >= x]
        while si < len(starts) and starts[si].x1 == x:
            h = starts[si]
            insort(active, (h.y1, h.y2, h.x2))
            si += 1
        prev = None
        for a in active:
            if prev is not None and a[0] <= prev:
                raise InputError("holes overlap")
            prev = a[1]
        free = _free_intervals(outer.y1, outer.y2, [(a[0], a[1]) for a in active])
        freeset = set(free)
        for iv in [iv for iv in open_at if iv not in freeset]:
            out.append(Rect(open_at.pop(iv), x - 1, iv[0], iv[1]))
        for iv in free:
            if iv not in open_at:
                open_at[iv] = x
    for iv, start in open_at.items():
        out.append(Rect(start, outer.x2, iv[0], iv[1]))
    return out
