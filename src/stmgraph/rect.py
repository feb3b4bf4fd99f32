"""Discrete rectangle geometry: inclusion forests of laminar families and
complements of disjoint rectangles.

Rectangles are inclusive integer boxes [x1,x2] x [y1,y2] on the grid.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
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

    def contains_point(self, x: int, y: int) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def contains(self, other: "Rect") -> bool:
        return (self.x1 <= other.x1 and other.x2 <= self.x2
                and self.y1 <= other.y1 and other.y2 <= self.y2)

    def disjoint(self, other: "Rect") -> bool:
        return (self.x2 < other.x1 or other.x2 < self.x1
                or self.y2 < other.y1 or other.y2 < self.y1)


class DynamicPointSet:
    """Dynamic 2D point set with insert, delete, and rectangle reporting.

    Sorted x-keys with per-x sorted y-lists; a simple substitute for the
    O(log) range-reporting structures the inclusion-forest algorithm assumes.
    Single-owner mutable; do not share across threads.
    """

    def __init__(self):
        self._xs: list[int] = []
        self._ys: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self._ys.values())

    def insert(self, pt: tuple[int, int]) -> None:
        x, y = pt
        ys = self._ys.get(x)
        if ys is None:
            insort(self._xs, x)
            self._ys[x] = [y]
            return
        i = bisect_left(ys, y)
        if i < len(ys) and ys[i] == y:
            return
        ys.insert(i, y)

    def delete(self, pt: tuple[int, int]) -> None:
        """Delete a point; deleting an absent point is a no-op."""
        x, y = pt
        ys = self._ys.get(x)
        if ys is None:
            return
        i = bisect_left(ys, y)
        if i >= len(ys) or ys[i] != y:
            return
        ys.pop(i)
        if not ys:
            del self._ys[x]
            self._xs.pop(bisect_left(self._xs, x))

    def report(self, rect: Rect) -> list[tuple[int, int]]:
        """All live points inside ``rect``."""
        out = []
        lo = bisect_left(self._xs, rect.x1)
        hi = bisect_right(self._xs, rect.x2)
        for x in self._xs[lo:hi]:
            ys = self._ys[x]
            a = bisect_left(ys, rect.y1)
            b = bisect_right(ys, rect.y2)
            for y in ys[a:b]:
                out.append((x, y))
        return out


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

    def dump(self) -> str:
        """Indented text rendering, for test diffs."""
        lines: list[str] = []

        def rec(i: int, depth: int) -> None:
            r = self.rects[i]
            lines.append("  " * depth + f"[{r.x1},{r.x2}]x[{r.y1},{r.y2}]")
            for c in sorted(self.children[i], key=lambda j: self.rects[j].key()):
                rec(c, depth + 1)

        for root in sorted(self.roots, key=lambda j: self.rects[j].key()):
            rec(root, 0)
        return "\n".join(lines)


def inclusion_forest(rects: Iterable[Rect]) -> InclusionForest:
    """Compute the inclusion forest of a laminar rectangle family.

    Processes rectangles by increasing area, maintaining a dynamic point set
    of one representative corner per not-yet-parented rectangle; each round's
    range query reports exactly the children of the current rectangle.

    Non-laminar inputs are detected whenever a reported representative's
    rectangle is not contained in the querying rectangle; ``laminar_forest``
    completes the check.
    """
    rlist = list(rects)
    order = sorted(range(len(rlist)), key=lambda i: (rlist[i].area,) + rlist[i].key())
    for a, b in zip(order, order[1:]):
        if rlist[a].key() == rlist[b].key():
            raise LaminarityError(f"duplicate rectangle {rlist[a].key()}", (a, b))

    parent: list[Optional[int]] = [None] * len(rlist)
    points = DynamicPointSet()
    owner: dict[tuple[int, int], int] = {}
    reported = [0] * len(rlist)
    for i in order:
        r = rlist[i]
        for pt in points.report(r):
            j = owner[pt]
            if not r.contains(rlist[j]):
                raise LaminarityError(
                    f"rectangle {rlist[j].key()} overlaps {r.key()} without containment",
                    (j, i))
            parent[j] = i
            reported[j] += 1
            assert reported[j] == 1, "representative point reported twice"
            points.delete(pt)
            del owner[pt]
        rep = (r.x1, r.y1)
        # rep lies inside r, so any previous owner of rep was just reported and removed
        assert rep not in owner
        points.insert(rep)
        owner[rep] = i
    return InclusionForest(rlist, parent)


def laminar_forest(rects: Iterable[Rect]) -> InclusionForest:
    """Inclusion forest of ``rects``; LaminarityError unless they are laminar.

    ``inclusion_forest`` checks that every child lies inside its parent.  A
    forest whose children are contained in their parents and whose siblings
    are pairwise disjoint is laminar: two rectangles that are not ancestor
    and descendant lie inside two distinct siblings (children of their lowest
    common ancestor, or two roots), so they are disjoint.  One sweep per
    sibling group finishes the check with O(m log m) comparisons over all
    groups.

    Siblings never contain one another (the larger would have claimed the
    smaller as its child), so any two that meet properly overlap; they are
    the witness the error carries.
    """
    forest = inclusion_forest(rects)
    for group in (forest.roots, *forest.children):
        if len(group) > 1:
            _check_disjoint(forest.rects, group)
    return forest


def _check_disjoint(rects: list[Rect], group: list[int]) -> None:
    """Raise LaminarityError if two rectangles of ``group`` meet.

    Sweep by x1, keeping the y-intervals of the rectangles still open at the
    sweep line sorted by y1.  While no two have met, these intervals are
    pairwise disjoint, so a new one meets some open interval iff it meets
    its predecessor or its successor in y order.
    """
    active: list[tuple[int, int, int]] = []  # (y1, y2, index), sorted
    closing: list[tuple[int, tuple[int, int, int]]] = []  # heap of (x2, entry)
    for i in sorted(group, key=lambda k: rects[k].x1):
        r = rects[i]
        while closing and closing[0][0] < r.x1:
            active.pop(bisect_left(active, heappop(closing)[1]))
        entry = (r.y1, r.y2, i)
        k = bisect_left(active, entry)
        for y1, y2, j in active[max(k - 1, 0):k + 1]:
            if y1 <= r.y2 and r.y1 <= y2:
                raise LaminarityError(
                    f"rectangles {rects[j].key()} and {r.key()} properly overlap", (j, i))
        active.insert(k, entry)
        heappush(closing, (r.x2, entry))


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
